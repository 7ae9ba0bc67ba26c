"""Differential tests: the continuum routines on integers against their
Fraction forms.

`decompose` counts each molecule's cells on 4x4 tiles, the rectangle unions
mark columns of an integer grid as bitsets, and they and the segment soup
of `extract_interfaces` scale their inputs to one common integer
denominator; the limit energy and the two island bounds price each
interface key once, and `configuration_on_grid` divides anchors by epsilon
on ints.  Each is checked here for equal results, or the same exception
type and message, against the plain Fraction formulation that it replaced,
kept below as the reference.  The polygon sweep has its reference in
test_fastpaths.py.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction as F

import pytest

from chiralattice import decomposition, rectregions
from chiralattice.altpairs import FLAT_R, FLAT_S
from chiralattice.decomposition import (
    PhasePartitionApprox,
    ScaledConfiguration,
    _window_in_lattice,
    decompose,
)
from chiralattice.densities import DensityModel
from chiralattice.gauges import GaugePolygon, phi_closed_form
from chiralattice.limits import (
    _WINDOW,
    InterfaceSegment,
    InvalidPartition,
    PolygonalPartition,
    PricedSegment,
    extract_interfaces,
    limit_energy,
    rs_lower_bound,
    spin_lower_bound,
)
from chiralattice.molecules import (
    R,
    S,
    InconsistentScale,
    Molecule,
    UnlabeledShape,
    Window,
    configuration_entries,
    configuration_on_grid,
    phase_label,
    phase_pattern,
    validate,
)
from chiralattice.rectregions import rect, region_area, symdiff_area
from conftest import random_configuration
from test_fastpaths import ref_perimeter


# -------------------------------------------------------------------
# Reference implementations (all Fraction, one cell or interval at a time)
# -------------------------------------------------------------------

def primitive_direction(d):
    """Write a nonzero rational vector as t * (p, q), gcd(|p|, |q|) = 1, t > 0."""
    dx, dy = F(d[0]), F(d[1])
    if dx == 0 and dy == 0:
        raise ValueError("zero vector has no direction")
    scale = math.lcm(dx.denominator, dy.denominator)
    ix, iy = int(dx * scale), int(dy * scale)
    g = math.gcd(abs(ix), abs(iy))
    return (ix // g, iy // g), F(g, scale)


def test_primitive_direction():
    assert primitive_direction((F(3, 2), F(-1, 2))) == ((3, -1), F(1, 2))
    assert primitive_direction((0, F(5, 3))) == ((0, 1), F(5, 3))
    with pytest.raises(ValueError):
        primitive_direction((0, 0))


def ref_decompose(scaled: ScaledConfiguration, window: Window) -> PhasePartitionApprox:
    """The block scan: 144 cell lookups per covering square."""
    eps = scaled.epsilon
    config = scaled.config
    wlat = _window_in_lattice(window, eps)
    x0, y0, x1, y1 = wlat.bounds()
    occ = config.occupancy
    regions = {lab: [] for lab in range(9)}
    bad = []
    for n1 in range(4 * math.floor((x0 - 6) / 4), 4 * math.ceil((x1 + 6) / 4) + 1, 4):
        for n2 in range(4 * math.floor((y0 - 6) / 4), 4 * math.ceil((y1 + 6) / 4) + 1, 4):
            u0, u1 = F(n1 - 6), F(n1 + 6)
            v0, v1 = F(n2 - 6), F(n2 + 6)
            if not (u0 < x1 and u1 > x0 and v0 < y1 and v1 > y0):
                continue
            inside = u0 >= x0 and u1 <= x1 and v0 >= y0 and v1 <= y1
            filled = sum(
                (a, b) in occ for a in range(n1 - 6, n1 + 6) for b in range(n2 - 6, n2 + 6)
            )
            if not inside or 0 < filled < 144:
                bad.append(rect(eps * u0, eps * v0, eps * u1, eps * v1))
                continue
            small = rect(eps * (n1 - 2), eps * (n2 - 2), eps * (n1 + 2), eps * (n2 + 2))
            if filled == 0:
                regions[0].append(small)
                continue
            labels = set()
            for a in range(n1 - 2, n1 + 2):
                for b in range(n2 - 2, n2 + 2):
                    idx = occ.get((a, b))
                    if idx is not None:
                        labels.add(phase_label(config.molecules[idx]))
            if len(labels) != 1:
                raise AssertionError(
                    f"full covering square at {(n1, n2)} carries phases "
                    f"{sorted(labels)}; the single-phase property failed"
                )
            regions[labels.pop()].append(small)
    return PhasePartitionApprox(eps, regions, bad, len(bad), eps * ref_perimeter(config, wlat))


def _ref_cells(region, xs, ys) -> set:
    cells = set()
    for x0, y0, x1, y1 in region:
        for i in range(bisect_left(xs, x0), bisect_left(xs, x1)):
            for j in range(bisect_left(ys, y0), bisect_left(ys, y1)):
                cells.add((i, j))
    return cells


def ref_symdiff_area(*regions) -> F:
    """Fraction grid, cells found by bisection; one region gives its area."""
    xs = sorted({v for region in regions for r in region for v in (r[0], r[2])})
    ys = sorted({v for region in regions for r in region for v in (r[1], r[3])})
    odd = set()
    for region in regions:
        odd ^= _ref_cells(region, xs, ys)
    return sum(((xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j]) for i, j in odd), F(0))


def _ref_line_key(a, b):
    (p, q), _ = primitive_direction((b[0] - a[0], b[1] - a[1]))
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return (p, q, F(p) * a[1] - F(q) * a[0])


def ref_extract_interfaces(part: PolygonalPartition) -> list[InterfaceSegment]:
    """Fraction line keys; every piece scans every interval on its line."""
    edges = [
        (poly[k], poly[(k + 1) % len(poly)], tag)
        for tag, polys in [*part.regions.items(), *([(_WINDOW, [part.window])] if part.window else [])]
        for poly in polys
        for k in range(len(poly))
    ]
    lines = {}
    for a, b, tag in edges:
        key = _ref_line_key(a, b)
        p, q, _ = key
        ta, tb = p * a[0] + q * a[1], p * b[0] + q * b[1]
        lines.setdefault(key, []).append((min(ta, tb), max(ta, tb), tag, 1 if tb > ta else -1))
    out = []
    for (p, q, offset), intervals in sorted(lines.items()):
        nn = F(p * p + q * q)
        cuts = sorted({t for lo, hi, _, _ in intervals for t in (lo, hi)})
        runs = {}
        for t0, t1 in zip(cuts, cuts[1:]):
            covers = [(tag, o) for lo, hi, tag, o in intervals if lo <= t0 and hi >= t1]
            if not covers:
                continue
            window_covers = [c for c in covers if c[0] == _WINDOW]
            region_covers = [c for c in covers if c[0] != _WINDOW]
            if window_covers:
                if len(window_covers) > 1 or len(region_covers) != 1:
                    raise InvalidPartition(f"window edge piece covered {len(region_covers)} times")
                lab, orient = region_covers[0]
                if orient != window_covers[0][1]:
                    raise InvalidPartition(f"region A_{lab} lies outside the window")
                if lab == 0:
                    continue
                i, j = lab, 0
                normal = (-q, p) if orient > 0 else (q, -p)
            elif len(region_covers) == 2:
                (la, oa), (lb, ob) = region_covers
                if oa == ob:
                    raise InvalidPartition(f"regions A_{la} and A_{lb} overlap along an edge")
                if la == lb:
                    continue
                left, right = (la, lb) if oa > 0 else (lb, la)
                if left < right:
                    i, j, normal = left, right, (-q, p)
                else:
                    i, j, normal = right, left, (q, -p)
            elif len(region_covers) == 1 and part.window is None:
                lab, orient = region_covers[0]
                if lab == 0:
                    raise InvalidPartition("label 0 cannot form islands")
                i, j = 0, lab
                normal = (q, -p) if orient > 0 else (-q, p)
            else:
                raise InvalidPartition(f"edge piece covered {len(region_covers)} times")
            runs.setdefault((i, j, normal), []).append((t0, t1))
        for (i, j, normal), spans in sorted(runs.items()):
            spans.sort()
            merged = [list(spans[0])]
            for t0, t1 in spans[1:]:
                if t0 == merged[-1][1]:
                    merged[-1][1] = t1
                else:
                    merged.append([t0, t1])
            for t0, t1 in merged:
                a = ((p * t0 - q * offset) / nn, (q * t0 + p * offset) / nn)
                b = ((p * t1 - q * offset) / nn, (q * t1 + p * offset) / nn)
                out.append(InterfaceSegment(a, b, i, j, normal))
    return out


def outcome(fn, *args):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


# -------------------------------------------------------------------
# Decomposition
# -------------------------------------------------------------------

def seam_configuration(rng: random.Random, left, right) -> list[Molecule]:
    """Two striped halves meeting at a random column, with or without an
    empty column between them, and a few molecules removed."""
    cut = rng.randint(-8, 8)
    gap = rng.choice((0, 1))
    mols = [m for m in left if all(c[0] < cut for c in m.cells())]
    mols += [m for m in right if all(c[0] >= cut + gap for c in m.cells())]
    for _ in range(rng.choice((0, 0, 1, 3))):
        mols.pop(rng.randrange(len(mols)))
    return mols


def striped(shape, residue) -> list[Molecule]:
    """The zero-energy tiling of a flat shape with anchors in [-26, 24)^2."""
    return [
        Molecule(shape, (a, b))
        for a in range(-26, 24)
        for b in range(-26, 24)
        if residue(a, b) % 4 == 0
    ]


def random_lattice_window(rng: random.Random, eps: F) -> Window:
    """A window whose lattice side and centre lie on grids of 1, 1/2, 1/3
    and 1/7, returned in continuum coordinates."""
    den = rng.choice((1, 2, 3, 7))
    side = F(rng.randint(6 * den, 40 * den), den)
    cx, cy = (F(rng.randint(-8 * den, 8 * den), den) for _ in range(2))
    return Window.square(side * eps, (cx * eps, cy * eps))


def test_decompose_matches_block_scan():
    rng = random.Random(20261018)
    kinds = {"sparse": 0, "seam": 0, "labelled": 0}
    for n in range(48):
        eps = F(1, rng.choice((1, 2, 3, 8)))
        if n % 3 == 0:
            mols = list(random_configuration(rng, max_molecules=60).molecules)
            kinds["sparse"] += 1
        else:
            i, j = rng.choice((1, 2, 3, 4, 5, 6, 7, 8)), rng.choice((1, 2, 3, 4, 5, 6, 7, 8))
            box = Window.square(52)
            mols = seam_configuration(
                rng, phase_pattern(i, box).molecules, phase_pattern(j, box).molecules
            )
            kinds["seam"] += 1
        sc = ScaledConfiguration(eps, validate(mols))
        window = random_lattice_window(rng, eps)
        got = decompose(sc, window)
        assert got == ref_decompose(sc, window), (eps, window)
        kinds["labelled"] += any(got.regions[lab] for lab in range(1, 9))
    assert min(kinds.values()) >= 10, kinds


def criterion_seam(eps: F) -> ScaledConfiguration:
    """Phase 1 left of x = 0 and phase 2 right of it on Q_(4/eps + 16), with
    an uncovered seam column, as in the benchmark's continuum workload."""
    box = Window.square(4 / eps + 16)
    left = [m for m in phase_pattern(1, box) if all(c[0] + 1 <= 0 for c in m.cells())]
    right = [m for m in phase_pattern(2, box) if all(c[0] >= 1 for c in m.cells())]
    return ScaledConfiguration(eps, validate(left + right))


@pytest.mark.parametrize("eps", [F(1, 16), F(1, 32), F(1, 64)])
def test_seam_sweep_matches_full_perimeter(eps):
    """The boundary length `decompose` reports equals the per-edge Fraction
    reference over every cell, in the centred window and in an off-centre
    window with rational bounds that reaches past the configuration's rim."""
    sc = criterion_seam(eps)
    occ = sc.config.occupancy
    tiles = Counter(((a + 2) >> 2, (b + 2) >> 2) for a, b in occ)
    # full tiles meet tiles that are not full at the seam and at the rim
    rim = max(t1 for t1, _ in tiles)
    for t1, step in ((-1, 1), (1, -1), (rim - 1, 1)):
        assert any(n == 16 and tiles[t1 + step, t2] < 16
                   for (c, t2), n in tiles.items() if c == t1), (t1, step)
    for window in (Window.square(4), Window.square(5, (F(1, 3), F(-2, 7)))):
        wlat = _window_in_lattice(window, eps)
        assert decompose(sc, window).boundary_length == eps * ref_perimeter(sc.config, wlat), window
        if window.center != (0, 0):
            x0, y0, x1, y1 = wlat.bounds()
            assert x1 > max(a for a, _ in occ) + 1 and y0 < min(b for _, b in occ)
            assert all(bound.denominator > 1 for bound in (x0, y0, x1, y1))


@pytest.mark.parametrize("eps", [F(1, 16), F(1, 32)])
def test_decompose_matches_block_scan_on_the_criterion_seam(eps, monkeypatch):
    """The seam of the benchmark, in the two windows of the sweep test;
    every full block reads its phase off its centre tile, none from the
    owners of its cells."""
    sc = criterion_seam(eps)
    windows = (Window.square(4), Window.square(5, (F(1, 3), F(-2, 7))))
    expected = [outcome(ref_decompose, sc, window) for window in windows]
    monkeypatch.setattr(decomposition, "_owner_phase", None)
    for window, want in zip(windows, expected):
        got = outcome(decompose, sc, window)
        assert got == want, window
        assert got.regions[1] and got.regions[2], window


def test_builtin_phase_labels_depend_on_the_anchor_mod_4():
    """`decompose` reads a built-in molecule's label from a table per shape
    and anchor residue mod 4, built from the anchors in [0, 4)^2."""
    for shape in (R, S):
        for x in range(-20, 20):
            for y in range(-20, 20):
                residue = Molecule(shape, (x % 4, y % 4))
                assert phase_label(Molecule(shape, (x, y))) == phase_label(residue), (x, y)


def test_decompose_skips_molecules_beyond_the_block_grid():
    """Small windows onto a seam of side 100 with flat molecules further out:
    molecules lie beyond the tiles the blocks read on every side (the tiles
    cover the cells within 12 of the lattice window), the flat ones among
    them never named, and molecules straddle the tiles' edge."""
    rng = random.Random(23)
    box = Window.square(100)
    patterns = {i: phase_pattern(i, box).molecules for i in (1, 2, 6, 7)}
    far = [Molecule(m.shape, (m.anchor[0] + 100, m.anchor[1])) for m in striped(FLAT_R, lambda a, b: a + b)]
    sides = Counter()
    for _ in range(10):
        i, j = rng.choice(sorted(patterns)), rng.choice(sorted(patterns))
        mols = seam_configuration(rng, patterns[i], patterns[j])
        sc = ScaledConfiguration(F(1, rng.choice((1, 2, 8))), validate(mols + far))
        den = rng.choice((1, 3, 7))
        side = F(rng.randint(20 * den, 40 * den), den)
        cx, cy = (F(rng.randint(-8 * den, 8 * den), den) for _ in range(2))
        window = Window.square(side * sc.epsilon, (cx * sc.epsilon, cy * sc.epsilon))
        got = outcome(decompose, sc, window)
        assert got == outcome(ref_decompose, sc, window), window
        sides["labelled"] += any(got.regions[lab] for lab in range(1, 9))
        # the cells within 12 of the lattice window lie in [xa, xb) x [ya, yb)
        x0, y0, x1, y1 = _window_in_lattice(window, sc.epsilon).bounds()
        xa, ya, xb, yb = math.floor(x0) - 12, math.floor(y0) - 12, math.ceil(x1) + 12, math.ceil(y1) + 12
        for m in sc.config:
            xs, ys = [a for a, _ in m.cells()], [b for _, b in m.cells()]
            sides["left"] += max(xs) < xa
            sides["right"] += min(xs) >= xb
            sides["below"] += max(ys) < ya
            sides["above"] += min(ys) >= yb
            sides["straddle"] += min(xs) < xa <= max(xs)
    assert sides["labelled"] >= 7 and min(sides.values()) >= 10, sides


def test_decompose_builds_rectangles_without_rect(monkeypatch):
    """Block rectangles are tuples of four Fractions in increasing order,
    built from the column and row ends without calling `rect`."""
    calls = []
    monkeypatch.setattr(rectregions, "rect", lambda *args: calls.append(args))
    for eps in (F(1, 16), F(1, 8)):
        for window in (Window.square(4), Window.square(5, (F(1, 3), F(-2, 7)))):
            approx = decompose(criterion_seam(eps), window)
            rects = [r for region in (*approx.regions.values(), approx.bad_region) for r in region]
            assert rects and approx.regions[1] and approx.regions[2]
            for r in rects:
                assert type(r) is tuple and len(r) == 4 and all(type(v) is F for v in r), r
                assert r[0] < r[2] and r[1] < r[3], r
    assert calls == []


def test_decompose_user_shapes_raise_where_the_block_scan_does():
    """Flat molecules fill blocks only right of the seam, or on both sides;
    UnlabeledShape names the shape that the cell scan meets first."""
    rng = random.Random(5)
    box = Window.square(52)
    flat_r = striped(FLAT_R, lambda a, b: a + b)
    flat_s = striped(FLAT_S, lambda a, b: b - a)
    messages = set()
    for left, right in (
        (phase_pattern(3, box).molecules, flat_r),
        (flat_s, flat_r),
        (flat_s, phase_pattern(6, box).molecules),
    ):
        for _ in range(6):
            sc = ScaledConfiguration(F(1, 4), validate(seam_configuration(rng, left, right)))
            window = random_lattice_window(rng, sc.epsilon)
            got = outcome(decompose, sc, window)
            assert got == outcome(ref_decompose, sc, window), window
            if isinstance(got, tuple):
                messages.add(got[1])
    assert {"shape 'FR' has no phase label", "shape 'FS' has no phase label"} <= messages


def band_covering() -> list[Molecule]:
    """A zero-energy covering by both flat shapes: a row of FS molecules at
    y = 3 between two differently shifted FR tilings."""
    return [
        Molecule(FLAT_S, (a, b)) if b == 3 else Molecule(FLAT_R, (a, b))
        for a in range(-24, 24)
        for b in range(-24, 24)
        if (a + b) % 4 == (0 if b <= 3 else 2)
    ]


def test_decompose_names_the_first_unlabeled_shape_in_cell_order():
    """Only the block centred at (c, 4), whose centre tile holds both
    shapes, is good; molecule order must not decide which shape is named."""
    rng = random.Random(3)
    mols = band_covering()
    for c in (-8, -4, 0, 4):
        for _ in range(3):
            rng.shuffle(mols)
            sc = ScaledConfiguration(F(1, 3), validate(mols))
            window = Window.square(4, (F(c, 3), F(4, 3)))
            got = outcome(decompose, sc, window)
            assert got == outcome(ref_decompose, sc, window)
            assert got[0] is UnlabeledShape


def test_sparse_user_shapes_decompose():
    sc = ScaledConfiguration(F(1, 2), validate([Molecule(FLAT_R, (0, 0)), Molecule(FLAT_S, (9, 9))]))
    approx = decompose(sc, Window.square(12))
    assert approx == ref_decompose(sc, Window.square(12))
    assert approx.bad_count > 0


# -------------------------------------------------------------------
# Rectangle unions
# -------------------------------------------------------------------

def random_rects(rng: random.Random, n: int) -> list:
    """Rectangles on grids of 1, 1/2, 1/3, 1/5 and 1/7 that overlap often."""
    out = []
    for _ in range(n):
        den = rng.choice((1, 2, 3, 5, 7))
        x0, x1 = sorted(rng.sample(range(-3 * den, 3 * den + 1), 2))
        y0, y1 = sorted(rng.sample(range(-3 * den, 3 * den + 1), 2))
        out.append(rect(F(x0, den), F(y0, den), F(x1, den), F(y1, den)))
    return out


def test_rectangle_unions_match_fraction_grid():
    rng = random.Random(77)
    for _ in range(150):
        a = random_rects(rng, rng.randint(0, 6))
        b = random_rects(rng, rng.randint(0, 6))
        got = region_area(a), symdiff_area(a, b)
        assert got == (ref_symdiff_area(a), ref_symdiff_area(a, b)), (a, b)
        assert all(type(v) is F for v in got)


def test_rectangle_unions_match_fraction_grid_on_decompositions():
    """The 12-squares of a bad region overlap heavily; each label's squares
    against a target, and three or more regions with a rectangle spanning
    every column of the grid."""
    rng = random.Random(41)
    box = Window.square(52)
    runs = [(criterion_seam(F(1, 16)), window)
            for window in (Window.square(4), Window.square(5, (F(1, 3), F(-2, 7))))]
    mols = seam_configuration(rng, phase_pattern(3, box).molecules, phase_pattern(6, box).molecules)
    runs.append((ScaledConfiguration(F(1, 7), validate(mols)), Window.square(F(36, 7), (F(1, 7), 0))))
    target = {1: [rect(-2, -2, 0, 2)], 2: [rect(0, -2, 2, 2)], 3: [rect(-3, -2, F(1, 3), 3)]}
    for sc, window in runs:
        approx = decompose(sc, window)
        assert len(approx.bad_region) > 20 and sum(map(len, approx.regions.values())) > 20
        got = region_area(approx.bad_region)
        assert type(got) is F and got == ref_symdiff_area(approx.bad_region) > 0
        for lab in range(9):
            region, goal = approx.regions[lab], target.get(lab, [])
            got = symdiff_area(region, goal)
            assert type(got) is F and got == ref_symdiff_area(region, goal), lab
        nonempty = [r for r in approx.regions.values() if r]
        x0 = min(r[0] for r in approx.bad_region)
        x1 = max(r[2] for r in approx.bad_region)
        across = [rect(x0, F(-1, 5), x1, F(2, 5))]
        for regions in ([approx.bad_region, *nonempty], [*nonempty, across], [across, approx.bad_region, across]):
            assert len(regions) >= 3
            got = rectregions._odd_cover_area(*regions)
            assert type(got) is F and got == ref_symdiff_area(*regions)


# -------------------------------------------------------------------
# The segment soup
# -------------------------------------------------------------------

def triangulated(rng: random.Random, size: int, windowed: bool):
    """Labels on the two triangles of every cell of a size x size grid, each
    cell cut along a random diagonal, mapped by x -> x/3 + 1/7.  Without a
    window the label-0 triangles are left out."""

    def pt(x, y):
        return (F(x, 3) + F(1, 7), F(y, 3) + F(1, 7))

    regions: dict[int, list] = {}
    for x in range(size):
        for y in range(size):
            corners = [pt(x, y), pt(x + 1, y), pt(x + 1, y + 1), pt(x, y + 1)]
            k = rng.randrange(2)
            for tri in ((corners[k], corners[k + 1], corners[k + 2]),
                        (corners[k + 2], corners[(k + 3) % 4], corners[k])):
                lab = rng.choice((0, 0, 1, 2, 5, 8))
                if windowed or lab:
                    regions.setdefault(lab, []).append(tri)
    window = [pt(0, 0), pt(size, 0), pt(size, size), pt(0, size)] if windowed else None
    return PolygonalPartition(regions=regions, window=window)


def test_extract_interfaces_matches_interval_scan():
    rng = random.Random(11)
    for n in range(24):
        part = triangulated(rng, rng.randint(2, 5), windowed=n % 2 == 0)
        got = extract_interfaces(part)
        assert got and got == ref_extract_interfaces(part)
        rim = ({x for x, _ in part.window}, {y for _, y in part.window}) if part.window else ((), ())
        for seg in got:
            # the length read off the normal is the primitive tangent's multiple
            assert seg.lattice_length == primitive_direction(
                (seg.b[0] - seg.a[0], seg.b[1] - seg.a[1]))[1], seg
            # pair and island pieces carry the `oriented` key; only an edge
            # on the window carries (label, 0)
            on_rim = any(seg.a[k] == seg.b[k] and seg.a[k] in rim[k] for k in (0, 1))
            assert seg.i < seg.j or (on_rim and seg.j == 0 < seg.i), seg


SQ = [(0, 0), (1, 0), (1, 1), (0, 1)]
WIN = [(-1, -1), (1, -1), (1, 1), (-1, 1)]

INVALID = {
    "double cover": PolygonalPartition(
        regions={1: [WIN], 2: [WIN]}, window=[(-1, -1), (3, -1), (3, 1), (-1, 1)]
    ),
    "outside the window": PolygonalPartition(
        regions={1: [[(1, 0), (3, F(1, 2)), (1, 1)]]}, window=SQ
    ),
    "spilling region": PolygonalPartition(
        regions={1: [[(1, 0), (3, 0), (3, 1), (1, 1)]]}, window=[(0, 0), (2, 0), (2, 1), (0, 1)]
    ),
    "same-orientation overlap": PolygonalPartition(
        regions={1: [SQ], 2: [[(0, 0), (1, 0), (1, F(1, 3)), (0, F(1, 3))]]}, window=None
    ),
    "triple edge": PolygonalPartition(
        regions={1: [SQ, [(1, 0), (2, 0), (2, 1), (1, 1)]], 2: [[(1, 0), (F(5, 7), 1), (1, 1)]]},
        window=None,
    ),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_partitions_fail_like_the_interval_scan(name):
    part = INVALID[name]
    with pytest.raises(InvalidPartition) as got:
        extract_interfaces(part)
    with pytest.raises(InvalidPartition) as ref:
        ref_extract_interfaces(part)
    assert str(got.value) == str(ref.value)


# -------------------------------------------------------------------
# Limit pricing per interface key
# -------------------------------------------------------------------

def ref_island_energy(islands: dict, gauges: dict) -> F:
    """Each segment of the interval scan priced on its own by its key's gauge."""
    part = PolygonalPartition(regions=islands, window=None)
    return sum((seg.lattice_length * gauges[seg.i, seg.j].gauge(seg.normal)
                for seg in ref_extract_interfaces(part)), F(0))


def ref_limit_energy(part: PolygonalPartition, model: DensityModel):
    """The total and the rows, one density lookup and product per segment."""
    rows = []
    for seg in ref_extract_interfaces(part):
        price, source = model.value_and_source(seg.i, seg.j, seg.normal)
        rows.append(PricedSegment(seg, price, source, seg.lattice_length * price))
    return sum((r.contribution for r in rows), F(0)), rows


def island_sets(part: PolygonalPartition):
    """The spin bound's one island set, all polygons of labels 1..8, and the
    R/S bound's two, the polygons of the least of them against the rest."""
    labels = sorted(lab for lab in part.regions if lab)
    everything = [poly for lab in labels for poly in part.regions[lab]]
    rest = [poly for lab in labels[1:] for poly in part.regions[lab]]
    return everything, part.regions[labels[0]], rest


def spin_gauges(model):
    return {(0, 1): model.spin_envelope()}


def rs_gauges(model):
    return {(0, 1): phi_closed_form(1), (0, 5): phi_closed_form(5), (1, 5): model.rs_contact_envelope()}


def test_limit_pricing_per_key_matches_per_segment_sums():
    """`limit_energy` in both modes and the two island bounds on the seeded
    triangulations, windowed and plane, against per-segment pricing."""
    rng = random.Random(11)
    model = DensityModel.with_patterns()
    spin, rs = spin_gauges(model), rs_gauges(model)
    merged = 0
    for n in range(24):
        part = triangulated(rng, rng.randint(2, 5), windowed=n % 2 == 0)
        total, rows = ref_limit_energy(part, model)
        assert limit_energy(part, model) == total
        assert limit_energy(part, model, detailed=True) == (total, rows)
        merged += len(rows) > len({(r.segment.i, r.segment.j, r.segment.normal) for r in rows})
        everything, first, rest = island_sets(part)
        assert spin_lower_bound(everything, model) == ref_island_energy({1: everything}, spin)
        assert rs_lower_bound(first, rest, model) == ref_island_energy({1: first, 5: rest}, rs)
    assert merged >= 12


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_partitions_fail_alike_in_limit_pricing(name):
    """A broken partition raises the interval scan's message through
    `limit_energy`; its regions read as islands by the two bounds raise as
    the per-segment reference does, or price as it does."""
    part = INVALID[name]
    want = outcome(ref_limit_energy, part, DensityModel.with_patterns())
    assert want[0] is InvalidPartition
    model = DensityModel.with_patterns()
    assert outcome(limit_energy, part, model) == want
    assert outcome(limit_energy, part, model, True) == want
    everything, first, rest = island_sets(part)
    assert outcome(spin_lower_bound, everything, model) == outcome(
        ref_island_energy, {1: everything}, spin_gauges(model))
    assert outcome(rs_lower_bound, first, rest, model) == outcome(
        ref_island_energy, {1: first, 5: rest}, rs_gauges(model))


def test_limit_pricing_looks_up_each_key_once(monkeypatch):
    """On a triangulation with more segments than keys, `limit_energy` calls
    `value_and_source` once per key in either mode, and the two bounds call
    `gauge` once per key of their island sets."""
    part = triangulated(random.Random(4), 6, windowed=True)
    model = DensityModel.with_patterns()
    everything, first, rest = island_sets(part)
    cases = [
        (lambda: limit_energy(part, model), part),
        (lambda: limit_energy(part, model, detailed=True), part),
        (lambda: spin_lower_bound(everything, model), PolygonalPartition({1: everything})),
        (lambda: rs_lower_bound(first, rest, model), PolygonalPartition({1: first, 5: rest})),
    ]
    # the envelopes are built before counting: building them reads gauges
    monkeypatch.setattr(model, "spin_envelope", lambda env=model.spin_envelope(): env)
    monkeypatch.setattr(model, "rs_contact_envelope", lambda env=model.rs_contact_envelope(): env)
    lookups, reads = [], []
    value_and_source, gauge = DensityModel.value_and_source, GaugePolygon.gauge
    monkeypatch.setattr(DensityModel, "value_and_source",
                        lambda self, i, j, nu: lookups.append((i, j, nu)) or value_and_source(self, i, j, nu))
    monkeypatch.setattr(GaugePolygon, "gauge", lambda self, nu: reads.append(nu) or gauge(self, nu))
    for run, priced in cases:
        segments = extract_interfaces(priced)
        keys = {(seg.i, seg.j, seg.normal) for seg in segments}
        assert len(segments) > len(keys) + 20
        lookups.clear()
        reads.clear()
        run()
        if priced is part:
            assert sorted(lookups) == sorted(keys)
        else:
            assert lookups == [] and sorted(reads) == sorted(nu for _, _, nu in keys)


# -------------------------------------------------------------------
# Continuum anchors on the epsilon grid
# -------------------------------------------------------------------

def ref_configuration_on_grid(epsilon, entries) -> list[Molecule]:
    """Each anchor coordinate divided by epsilon as a Fraction."""
    mols = []
    for n, (shape, anchor) in enumerate(entries):
        ax, ay = F(anchor[0]) / epsilon, F(anchor[1]) / epsilon
        if ax.denominator != 1 or ay.denominator != 1:
            raise InconsistentScale(
                f"anchor ({anchor[0]}, {anchor[1]}) of molecule #{n} "
                f"is not on the {epsilon}-grid"
            )
        mols.append(Molecule(shape, (int(ax), int(ay))))
    return list(validate(mols).molecules)


def on_grid(epsilon, entries) -> list[Molecule]:
    return list(configuration_on_grid(epsilon, entries).molecules)


def test_configuration_on_grid_matches_fraction_division():
    """The 1/64 seam read back from a continuum file, anchors on coarser
    grids and an epsilon that is not a unit fraction, and anchors off the
    grid, which raise InconsistentScale with the same message."""
    eps = F(1, 64)
    seam_file = json.dumps([
        {"shape": m.shape.name, "anchor": [str(eps * m.anchor[0]), str(eps * m.anchor[1])]}
        for m in criterion_seam(eps).config
    ])
    entries = configuration_entries(json.loads(seam_file))
    assert len(entries) > 10_000 and any(F(v).denominator == 64 for _, a in entries for v in a)
    cases = [(eps, entries), (F(1, 64), entries[:50] + [(R, (F(1, 128), F(3, 4)))])]
    for epsilon in (1, F(1), F(2, 3), F(1, 7), F(-1, 2)):
        spread = [(R if n % 2 else S, (epsilon * (5 * n - 40), epsilon * (3 - 7 * n))) for n in range(12)]
        cases.append((epsilon, spread))
        for off in ((epsilon / 2, 0), (0, epsilon * F(5, 3)), (epsilon + 1, F(-1, 9))):
            cases.append((epsilon, spread[:5] + [(S, off)] + spread[5:]))
    cases.append((1, [(R, (3, -2)), (S, (F(7), 9))]))
    raised = 0
    for epsilon, mols in cases:
        got = outcome(on_grid, epsilon, mols)
        assert got == outcome(ref_configuration_on_grid, epsilon, mols), epsilon
        if isinstance(got, tuple):
            raised += got[0] is InconsistentScale
        else:
            assert all(type(v) is int for m in got for v in m.anchor)
    assert raised >= 14
