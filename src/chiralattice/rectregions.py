"""Exact area arithmetic for finite unions of axis-aligned rectangles."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Sequence

from .molecules import InvalidInput, decode_regions, json_rational
from .polygeom import integer_points

Rect = tuple[Fraction, Fraction, Fraction, Fraction]  # x0, y0, x1, y1


def rect(x0, y0, x1, y1) -> Rect:
    r = tuple(v if type(v) is Fraction else Fraction(v) for v in (x0, y0, x1, y1))
    if r[0] >= r[2] or r[1] >= r[3]:
        raise InvalidInput(f"degenerate rectangle {r}")
    return r


def _odd_cover_area(*regions: Sequence[Rect]) -> Fraction:
    """Area of the cells of the regions' common grid that an odd number
    of the regions cover, each region counted as its union.

    The corners are scaled once to the common denominator D of all their
    coordinates; cells are marked by int indices and their areas summed
    as ints, so only the result is a Fraction.
    """
    d, corners = integer_points([(r[:2], r[2:]) for region in regions for r in region])
    xs = sorted({x for pair in corners for x, _ in pair})
    ys = sorted({y for pair in corners for _, y in pair})
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    odd: set[tuple[int, int]] = set()
    pairs = iter(corners)
    for region in regions:
        cells = set()
        for (x0, y0), (x1, y1) in islice(pairs, len(region)):
            js = range(yi[y0], yi[y1])
            for i in range(xi[x0], xi[x1]):
                cells.update((i, j) for j in js)
        odd ^= cells
    total = sum((xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j]) for i, j in odd)
    return Fraction(total, d * d)


def region_area(region: Sequence[Rect]) -> Fraction:
    """Area of the union (overlaps counted once)."""
    return _odd_cover_area(region)


def symdiff_area(a: Sequence[Rect], b: Sequence[Rect]) -> Fraction:
    """Exact area of the symmetric difference of two rectangle unions."""
    return _odd_cover_area(a, b)


def rects_to_jsonable(region: Sequence[Rect]) -> list[list[str]]:
    return [[str(v) for v in r] for r in region]


def _label(lab) -> int:
    lab = int(lab)
    if not 0 <= lab <= 8:
        raise InvalidInput(f"label {lab} out of range 0..8")
    return lab


def regions_from_jsonable(data) -> dict[int, list[Rect]]:
    """Decode {label: [[x0, y0, x1, y1], ...]}, the regions `decompose`
    reports; labels are 0..8 and coordinates integers or rational strings."""
    if not isinstance(data, dict):
        raise InvalidInput(f"regions: expected a JSON object, not {type(data).__name__}")

    def row(r) -> Rect:
        return rect(*[json_rational("coordinate", v) for v in r])

    return decode_regions(_label, row, data)
