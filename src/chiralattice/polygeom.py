"""Exact rational plane geometry: areas, hulls, and area sweeps.

Polygons are sequences of rational vertices, each coordinate an int or a
`fractions.Fraction`.  Every result is an exact Fraction; there are no
epsilons anywhere.  The polygon area, the hull and the area sweep scale
their vertices once to their common integer denominator
(`integer_points`, which refuses any other coordinate, such as a float)
and run on ints, building a Fraction only for a proper edge crossing and
for the result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Sequence

from .molecules import InvalidInput

Vec = tuple[Fraction, Fraction]
Polygon = tuple[Vec, ...]


def cross(o: Vec, a: Vec, b: Vec) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def shoelace(pts: Sequence[tuple[int, int]]) -> int:
    """Twice the signed area of a polygon with integer vertices."""
    total = 0
    x0, y0 = pts[-1] if pts else (0, 0)
    for x1, y1 in pts:
        total += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return total


def polygon_area(poly: Sequence[Vec]) -> Fraction:
    """Signed area (positive for counterclockwise orientation).

    The vertices are scaled once by `integer_points` to the common
    denominator d of their coordinates, the shoelace sum is taken on ints,
    and the one Fraction built is the result, that sum over 2*d^2.
    """
    d, (pts,) = integer_points([poly])
    return Fraction(shoelace(pts), 2 * d * d)


def convex_hull(points: Iterable[Vec]) -> Polygon:
    """Counterclockwise convex hull, collinear points dropped, taken on
    the points scaled by `integer_points`; fewer than three distinct
    points, or only collinear ones, raise InvalidInput."""
    d, (scaled,) = integer_points([list(points)])
    pts = sorted(set(scaled))
    if len(pts) < 3:
        raise InvalidInput("hull needs at least 3 distinct points")

    def half(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise InvalidInput("points are collinear")
    return tuple((Fraction(x, d), Fraction(y, d)) for x, y in hull)


def _inexact(v):
    """Raise InvalidInput for a coordinate that is not an int or a Fraction."""
    raise InvalidInput(f"invalid coordinate {v!r}: expected an int or a Fraction")


def integer_points(groups: Sequence[Sequence[Vec]]) -> tuple[int, list[list[tuple[int, int]]]]:
    """The least common denominator d of the points' coordinates, and each
    group of points scaled by d to integer points, in order.

    A point is a pair (x, y), and its coordinates are ints or Fractions,
    each read once by as_integer_ratio; any other point, or coordinate
    such as a float or a bool, raises InvalidInput.
    """
    try:
        ratios = [
            v.as_integer_ratio() if type(v) is int or type(v) is Fraction else _inexact(v)
            for group in groups for x, y in group for v in (x, y)
        ]
    except InvalidInput:
        raise
    except (TypeError, ValueError):
        raise InvalidInput("invalid point: expected a pair (x, y)") from None
    d = math.lcm(*{q for _, q in ratios})
    scaled = iter([p * (d // q) for p, q in ratios])
    points = zip(scaled, scaled)
    return d, [list(islice(points, len(group))) for group in groups]


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
    proper edge crossing; inside a slab active edges are orderable, and
    parity vectors are constant between consecutive edges.  The vertices
    are scaled once to their common denominator D, so every edge has
    integer ends and is kept as dx*y = c + dy*x over [x_lo, x_hi].
    Crossings are searched slab by slab, after Bentley and Ottmann: in the
    slab between two consecutive vertex abscissas the spanning edges are
    sorted by their ordinate at its left end (ties by the right end), and
    a pair crosses inside the slab iff that order is strictly inverted at
    the right end.  A proper crossing of two edges, a strict sign change of
    the linear gap between them over their common x-range, lies strictly
    inside one vertex slab or on a vertex abscissa, which is a break
    already; so these are the breaks an all-pairs search finds.  Only a
    crossing's abscissa and the ordinates on it are Fractions.  Twice the
    area is summed on the scaled slabs and divided once by 2*D^2.
    """
    if predicate(tuple(False for _ in polygon_sets)):
        raise ValueError("predicate region is unbounded")
    tagged = [(si, poly) for si, ps in enumerate(polygon_sets) for poly in ps]
    d, polys = integer_points([poly for _, poly in tagged])
    breaks: set[int] = set()
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

    nsets = len(polygon_sets)
    twice = 0

    def add_slab(xl, xr, ends) -> None:
        # ends: (y at xl, y at xr, set) of the spanning edges, sorted
        nonlocal twice
        parity = [False] * nsets
        width = xr - xl
        for ei in range(len(ends) - 1):
            parity[ends[ei][2]] = not parity[ends[ei][2]]
            if predicate(tuple(parity)):
                ya_l, ya_r = ends[ei][:2]
                yb_l, yb_r = ends[ei + 1][:2]
                twice += width * ((yb_l + yb_r) - (ya_l + ya_r))

    xs = sorted(breaks)
    active: list[tuple[int, int, int, int, int, int]] = []
    pending = iter(edges)
    nxt = next(pending, None)
    for xl, xr in zip(xs, xs[1:]):
        # an edge spans the slab iff x_lo <= xl < x_hi, since every x_hi
        # is a vertex abscissa
        active = [e for e in active if e[1] > xl]
        while nxt is not None and nxt[0] <= xl:
            active.append(nxt)
            nxt = next(pending, None)
        ends = sorted(
            (_ordinate(c, dy, dx, xl), _ordinate(c, dy, dx, xr), si, (c, dy, dx))
            for _, _, dx, dy, c, si in active
        )
        # insertion by the right ordinate meets every strictly inverted pair
        cuts: set = set()
        order: list = []
        for end in ends:
            k = len(order)
            while k and order[k - 1][1] > end[1]:
                k -= 1
                (c1, dy1, dx1), (c2, dy2, dx2) = order[k][3], end[3]
                f_l = (c1 + dy1 * xl) * dx2 - (c2 + dy2 * xl) * dx1
                f_r = (c1 + dy1 * xr) * dx2 - (c2 + dy2 * xr) * dx1
                cuts.add(Fraction(xl * f_r - xr * f_l, f_r - f_l))
            order.insert(k, end)
        if not cuts:
            add_slab(xl, xr, ends)
            continue
        sub = [xl, *sorted(cuts), xr]
        for x0, x1 in zip(sub, sub[1:]):
            add_slab(x0, x1, sorted(
                (_ordinate(*line, x0), _ordinate(*line, x1), si) for _, _, si, line in ends
            ))
    return Fraction(twice, 2 * d * d)
