"""Exact rational plane geometry: directions, hulls, and area sweeps.

Polygons are sequences of rational vertices.  Everything here stays in
`fractions.Fraction`; there are no epsilons anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

Vec = tuple[Fraction, Fraction]
Polygon = tuple[Vec, ...]


def cross(o: Vec, a: Vec, b: Vec) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def primitive_direction(d: Vec) -> tuple[tuple[int, int], Fraction]:
    """Write a nonzero rational vector as t * (p, q), gcd(|p|, |q|) = 1, t > 0."""
    dx, dy = Fraction(d[0]), Fraction(d[1])
    if dx == 0 and dy == 0:
        raise ValueError("zero vector has no direction")
    scale = math.lcm(dx.denominator, dy.denominator)
    ix, iy = int(dx * scale), int(dy * scale)
    g = math.gcd(abs(ix), abs(iy))
    return (ix // g, iy // g), Fraction(g, scale)


def polygon_area(poly: Sequence[Vec]) -> Fraction:
    """Signed area (positive for counterclockwise orientation)."""
    total = Fraction(0)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2


def convex_hull(points: Iterable[Vec]) -> Polygon:
    """Counterclockwise convex hull, collinear points dropped."""
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if len(pts) < 3:
        raise ValueError("hull needs at least 3 distinct points")

    def half(seq):
        out: list[Vec] = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = tuple(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise ValueError("points are collinear")
    return hull


# -------------------------------------------------------------------
# Area of a boolean combination of polygon sets (exact slab sweep)
# -------------------------------------------------------------------

Edge = tuple[Vec, Vec]


def _edges_of(polygons: Iterable[Sequence[Vec]]) -> list[Edge]:
    out: list[Edge] = []
    for poly in polygons:
        n = len(poly)
        for i in range(n):
            a = (Fraction(poly[i][0]), Fraction(poly[i][1]))
            b = (Fraction(poly[(i + 1) % n][0]), Fraction(poly[(i + 1) % n][1]))
            if a != b:
                out.append((a, b))
    return out


def predicate_area(
    polygon_sets: Sequence[Iterable[Sequence[Vec]]],
    predicate: Callable[[tuple[bool, ...]], bool],
) -> Fraction:
    """Area of {x : predicate(inside_0(x), ..., inside_k(x))}.

    Each polygon set defines a region by even-odd parity of its edges, so
    a set given as disjoint simple polygons behaves as their union.  The
    predicate must describe a bounded region (it must be False when all
    memberships are False).

    The sweep cuts the plane into vertical slabs at every vertex and every
    pairwise edge crossing; inside a slab active edges are orderable, and
    parity vectors are constant between consecutive edges.  Non-vertical
    edges are kept as lines y = slope * x + intercept over [x_lo, x_hi],
    sorted by x_lo, so only pairs whose x-ranges overlap are tested for a
    crossing.
    """
    if predicate(tuple(False for _ in polygon_sets)):
        raise ValueError("predicate region is unbounded")
    breaks: set[Fraction] = set()
    edges: list[tuple[Fraction, Fraction, Fraction, Fraction, int]] = []
    for si, ps in enumerate(polygon_sets):
        for a, b in _edges_of(ps):
            breaks.add(a[0])
            breaks.add(b[0])
            if a[0] == b[0]:
                continue
            lo, hi = (a, b) if a[0] < b[0] else (b, a)
            slope = (hi[1] - lo[1]) / (hi[0] - lo[0])
            edges.append((lo[0], hi[0], slope, lo[1] - slope * lo[0], si))
    if not breaks:
        return Fraction(0)
    edges.sort(key=lambda e: e[0])

    # pairwise crossings of non-vertical edges with overlapping x-ranges
    for k, (_, x_hi1, slope1, icpt1, _) in enumerate(edges):
        for m in range(k + 1, len(edges)):
            x_lo2, x_hi2, slope2, icpt2, _ = edges[m]
            if x_lo2 > x_hi1:
                break
            if slope1 == slope2:
                continue
            x = (icpt2 - icpt1) / (slope1 - slope2)
            if x_lo2 <= x <= x_hi1 and x <= x_hi2:
                breaks.add(x)

    xs = sorted(breaks)
    nsets = len(polygon_sets)
    total = Fraction(0)
    active: list[tuple[Fraction, Fraction, Fraction, Fraction, int]] = []
    pending = iter(edges)
    nxt = next(pending, None)
    for xl, xr in zip(xs, xs[1:]):
        # an edge spans the slab iff x_lo <= xl < x_hi, since every x_hi
        # is a breakpoint
        active = [e for e in active if e[1] > xl]
        while nxt is not None and nxt[0] <= xl:
            active.append(nxt)
            nxt = next(pending, None)
        ends = sorted(
            (slope * xl + icpt, slope * xr + icpt, si)
            for _, _, slope, icpt, si in active
        )
        parity = [False] * nsets
        width = xr - xl
        for ei in range(len(ends) - 1):
            parity[ends[ei][2]] = not parity[ends[ei][2]]
            if predicate(tuple(parity)):
                ya_l, ya_r, _ = ends[ei]
                yb_l, yb_r, _ = ends[ei + 1]
                total += width * ((yb_l + yb_r) - (ya_l + ya_r)) / 2
    return total
