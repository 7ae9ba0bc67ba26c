"""Exact area arithmetic for finite unions of axis-aligned rectangles."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .molecules import InvalidInput, decode_regions, json_rational
from .polygeom import integer_points

Rect = tuple[Fraction, Fraction, Fraction, Fraction]  # x0, y0, x1, y1


def rect(x0, y0, x1, y1) -> Rect:
    r = tuple(json_rational("coordinate", v) for v in (x0, y0, x1, y1))
    if r[0] >= r[2] or r[1] >= r[3]:
        raise InvalidInput(f"degenerate rectangle {r}")
    return r


def _odd_cover_area(*regions: Sequence[Rect]) -> Fraction:
    """Area of the points that an odd number of the regions cover, each
    region counted as its union.

    The corners are scaled once to the common denominator D of all their
    coordinates, and their abscissas and ordinates cut the plane into
    columns and y-slabs.  Each column is one int whose bit j stands for
    slab j.  A rectangle ORs the run of bits of its slabs into each of its
    columns, so overlaps within one region count once, and the regions'
    columns are XOR-ed.  Columns with equal bits are summed by width; the
    height of a column is the sum over its runs of set bits, whose ends are
    the set bits of m ^ (m << 1).  All of this is int arithmetic, and only
    the result is a Fraction.
    """
    d, corners = integer_points([[p for r in region for p in (r[:2], r[2:])] for region in regions])
    xs = sorted({x for points in corners for x, _ in points})
    ys = sorted({y for points in corners for _, y in points})
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    odd = [0] * (len(xs) - 1)
    for points in corners:
        cover = [0] * len(odd)
        pairs = iter(points)
        for (x0, y0), (x1, y1) in zip(pairs, pairs):
            run = (1 << yi[y1]) - (1 << yi[y0])
            for i in range(xi[x0], xi[x1]):
                cover[i] |= run
        odd = [a ^ b for a, b in zip(odd, cover)]
    widths: dict[int, int] = {}
    for i, m in enumerate(odd):
        widths[m] = widths.get(m, 0) + xs[i + 1] - xs[i]
    total = 0
    for m, width in widths.items():
        ends, height, sign = m ^ (m << 1), 0, -1
        while ends:
            height += sign * ys[(ends & -ends).bit_length() - 1]
            ends &= ends - 1
            sign = -sign
        total += width * height
    return Fraction(total, d * d)


def region_area(region: Sequence[Rect]) -> Fraction:
    """Area of the union (overlaps counted once)."""
    return _odd_cover_area(region)


def symdiff_area(a: Sequence[Rect], b: Sequence[Rect]) -> Fraction:
    """Exact area of the symmetric difference of two rectangle unions."""
    return _odd_cover_area(a, b)


def rects_to_jsonable(region: Sequence[Rect]) -> list[list[str]]:
    return [[str(v) for v in r] for r in region]


def regions_from_jsonable(data) -> dict[int, list[Rect]]:
    """Decode {label: [[x0, y0, x1, y1], ...]}, the regions `decompose`
    reports; labels are keys of ASCII digits, 0..8, and coordinates
    integers or rational strings."""
    if not isinstance(data, dict):
        raise InvalidInput(f"regions: expected a JSON object, not {type(data).__name__}")

    def row(r) -> Rect:
        return rect(*[json_rational("coordinate", v) for v in r])

    return decode_regions(row, data)
