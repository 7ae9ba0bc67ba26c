"""Exact rational plane geometry: areas, hulls, and area sweeps.

Polygons are sequences of rational vertices.  Every result is an exact
`fractions.Fraction`; there are no epsilons anywhere.  The area sweep
scales its vertices once to their common integer denominator and runs on
ints, building a Fraction only for a proper edge crossing and for the
result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

Vec = tuple[Fraction, Fraction]
Polygon = tuple[Vec, ...]


def cross(o: Vec, a: Vec, b: Vec) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


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


def integer_points(groups: Sequence[Sequence[Vec]]) -> tuple[int, list[list[tuple[int, int]]]]:
    """The least common denominator d of the points' coordinates, and each
    group of points scaled by d to integer points, in order."""
    d = math.lcm(*(v.denominator for group in groups for pt in group for v in pt))
    return d, [
        [(x.numerator * (d // x.denominator), y.numerator * (d // y.denominator)) for x, y in group]
        for group in groups
    ]


# -------------------------------------------------------------------
# Area of a boolean combination of polygon sets (exact slab sweep)
# -------------------------------------------------------------------

def _ordinate(c: int, dy: int, dx: int, x) -> Fraction | int:
    """(c + dy*x) / dx: the height at x of an edge with dx*y = c + dy*x,
    an int wherever dx divides."""
    num = c + dy * x
    if type(num) is int:
        whole, rest = divmod(num, dx)
        return whole if rest == 0 else Fraction(num, dx)
    return num / dx


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
    parity vectors are constant between consecutive edges.  The vertices
    are scaled once to their common denominator D, so every edge has
    integer ends and is kept as dx*y = c + dy*x over [x_lo, x_hi], sorted
    by x_lo; only pairs whose x-ranges overlap are tested for a crossing.
    A pair crosses properly iff the int (y1 - y2)*dx1*dx2 changes sign
    between the ends of the common x-range, and only such a crossing's
    abscissa is a Fraction.  Twice the area is summed on the scaled slabs
    and divided once by 2*D^2.
    """
    if predicate(tuple(False for _ in polygon_sets)):
        raise ValueError("predicate region is unbounded")
    tagged = [
        (si, [(Fraction(x), Fraction(y)) for x, y in poly])
        for si, ps in enumerate(polygon_sets)
        for poly in ps
    ]
    d, polys = integer_points([poly for _, poly in tagged])
    breaks: set = set()
    edges: list[tuple[int, int, int, int, int, int]] = []
    for (si, _), pts in zip(tagged, polys):
        for a, b in zip(pts, pts[1:] + pts[:1]):
            breaks.add(a[0])
            breaks.add(b[0])
            if a[0] == b[0]:
                continue
            (xl, yl), (xh, yh) = (a, b) if a[0] < b[0] else (b, a)
            dx, dy = xh - xl, yh - yl
            edges.append((xl, xh, dx, dy, yl * dx - dy * xl, si))
    if not breaks:
        return Fraction(0)
    edges.sort(key=lambda e: e[0])

    # proper crossings of non-vertical edges with overlapping x-ranges;
    # the ends of a common x-range are vertices, hence already breaks
    for k, (_, x_hi1, dx1, dy1, c1, _) in enumerate(edges):
        for m in range(k + 1, len(edges)):
            lo, x_hi2, dx2, dy2, c2, _ = edges[m]
            if lo > x_hi1:
                break
            hi = min(x_hi1, x_hi2)
            f_lo = (c1 + dy1 * lo) * dx2 - (c2 + dy2 * lo) * dx1
            f_hi = (c1 + dy1 * hi) * dx2 - (c2 + dy2 * hi) * dx1
            if (f_lo < 0 < f_hi) or (f_hi < 0 < f_lo):
                breaks.add(Fraction(lo * f_hi - hi * f_lo, f_hi - f_lo))

    xs = sorted(breaks)
    nsets = len(polygon_sets)
    twice = 0
    active: list[tuple[int, int, int, int, int, int]] = []
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
            (_ordinate(c, dy, dx, xl), _ordinate(c, dy, dx, xr), si)
            for _, _, dx, dy, c, si in active
        )
        parity = [False] * nsets
        width = xr - xl
        for ei in range(len(ends) - 1):
            parity[ends[ei][2]] = not parity[ends[ei][2]]
            if predicate(tuple(parity)):
                ya_l, ya_r, _ = ends[ei]
                yb_l, yb_r, _ = ends[ei + 1]
                twice += width * ((yb_l + yb_r) - (ya_l + ya_r))
    return Fraction(twice, 2 * d * d)
