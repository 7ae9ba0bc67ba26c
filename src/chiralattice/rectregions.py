"""Exact area arithmetic for finite unions of axis-aligned rectangles."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence

from .molecules import InvalidInput, decode_entry, decode_list

Rect = tuple[Fraction, Fraction, Fraction, Fraction]  # x0, y0, x1, y1


def rect(x0, y0, x1, y1) -> Rect:
    r = (Fraction(x0), Fraction(y0), Fraction(x1), Fraction(y1))
    if r[0] >= r[2] or r[1] >= r[3]:
        raise InvalidInput(f"degenerate rectangle {r}")
    return r


def _grid(regions: Sequence[Sequence[Rect]]) -> tuple[list[Fraction], list[Fraction]]:
    xs: set[Fraction] = set()
    ys: set[Fraction] = set()
    for region in regions:
        for x0, y0, x1, y1 in region:
            xs.update((x0, x1))
            ys.update((y0, y1))
    return sorted(xs), sorted(ys)


def _mark(region: Iterable[Rect], xs: list[Fraction], ys: list[Fraction]) -> set[tuple[int, int]]:
    cells: set[tuple[int, int]] = set()
    for x0, y0, x1, y1 in region:
        i0, i1 = bisect_left(xs, x0), bisect_left(xs, x1)
        j0, j1 = bisect_left(ys, y0), bisect_left(ys, y1)
        for i in range(i0, i1):
            for j in range(j0, j1):
                cells.add((i, j))
    return cells


def _cells_area(cells: set[tuple[int, int]], xs, ys) -> Fraction:
    total = Fraction(0)
    for i, j in cells:
        total += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return total


def region_area(region: Sequence[Rect]) -> Fraction:
    """Area of the union (overlaps counted once)."""
    if not region:
        return Fraction(0)
    xs, ys = _grid([region])
    return _cells_area(_mark(region, xs, ys), xs, ys)


def symdiff_area(a: Sequence[Rect], b: Sequence[Rect]) -> Fraction:
    """Exact area of the symmetric difference of two rectangle unions."""
    if not a and not b:
        return Fraction(0)
    xs, ys = _grid([a, b])
    return _cells_area(_mark(a, xs, ys) ^ _mark(b, xs, ys), xs, ys)


def rects_to_jsonable(region: Sequence[Rect]) -> list[list[str]]:
    return [[str(v) for v in r] for r in region]


def regions_from_jsonable(data) -> dict[int, list[Rect]]:
    """Decode {label: [[x0, y0, x1, y1], ...]}, the regions `decompose` reports."""
    if not isinstance(data, dict):
        raise InvalidInput(f"regions: expected a JSON object, not {type(data).__name__}")
    return {
        decode_entry("region label", int, lab): decode_list(f"region {lab}", lambda r: rect(*r), rows)
        for lab, rows in data.items()
    }
